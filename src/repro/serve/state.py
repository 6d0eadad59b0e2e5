"""Shared server state: watch identity, caches, client accounts.

Everything a request may touch concurrently lives here, behind small
explicit locks.  The sharing story:

* :class:`ResultCache` — completed campaigns keyed by their *full*
  identity, the :class:`~repro.core.request.TuneRequest` (with the
  effective budget), so a replayed request is answered without
  measuring anything.  Bounded LRU: a long-lived daemon must not
  grow without limit.
* :class:`ModelCache` — the fitted :class:`~repro.core.model.PerformanceModel`
  of every fresh campaign, keyed by what determines its training set.
  Serves ``predict`` requests across clients.
* one :class:`~repro.experiments.oracle_store.OracleProvider` — shared
  ground-truth cache (optionally disk-backed) for evaluation helpers.
* :class:`ClientAccount` — per-connection simulated-second budget,
  charged through a :class:`~repro.simulator.noise.CostLedger` so the
  breakdown (compile/run/failed/retry) is reported back to the client.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.request import TuneRequest
from repro.simulator.noise import CostLedger


@dataclass(frozen=True)
class WatchKey:
    """Identity of one *online* (watch) campaign in the in-flight table.

    Deliberately **not** a coalescing key: two watches with identical
    requests are still different campaigns — each lives on its own
    drift clock, started at its own moment.  ``serial`` (a per-server
    counter) keeps every watch unique in the shared in-flight dict;
    ``request`` is the watch's :class:`~repro.core.request.TuneRequest`
    (``online`` set), from which stats and event frames take their
    readable fields.
    """

    serial: int
    request: TuneRequest


class _LRU:
    """Tiny thread-safe LRU map with hit/miss counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Entries dropped at capacity.  An operator watching stats can
        #: tell a healthy cache from one thrashing its capacity — silent
        #: eviction looked identical to "never stored" before this.
        self.evictions = 0

    def get(self, key):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class ResultCache(_LRU):
    """Completed campaign payloads, keyed by
    :class:`~repro.core.request.TuneRequest`."""


class ModelCache(_LRU):
    """Fitted performance models, keyed by what determines them:
    ``(kernel, device, n_train, seed, fit_mode)``."""


class ClientAccount:
    """One connection's simulated-second allowance.

    ``budget_s=None`` means unlimited (the default single-user posture);
    a bounded account accumulates every fresh campaign it *initiated*
    into its ledger — coalesced joins and cache hits are free, because
    they cost the server nothing marginal.
    """

    def __init__(self, name: str, budget_s: Optional[float] = None) -> None:
        self.name = name
        self.budget_s = budget_s
        self.ledger = CostLedger()
        self._lock = threading.Lock()
        self.n_requests = 0
        self.n_campaigns = 0

    def inc_requests(self) -> None:
        """Count one dispatched request.  Must be the only writer of
        ``n_requests``: a bare ``+= 1`` from the dispatch path races with
        :meth:`snapshot` and with itself under concurrent connections
        (read-modify-write is not atomic), silently losing counts."""
        with self._lock:
            self.n_requests += 1

    def remaining_s(self) -> Optional[float]:
        """Simulated seconds left, or None when unlimited."""
        if self.budget_s is None:
            return None
        with self._lock:
            return max(0.0, self.budget_s - self.ledger.total_s)

    def exhausted(self) -> bool:
        remaining = self.remaining_s()
        return remaining is not None and remaining <= 0.0

    def effective_budget_s(self, requested: Optional[float]) -> Optional[float]:
        """Campaign budget after clamping by this client's allowance."""
        remaining = self.remaining_s()
        if remaining is None:
            return requested
        if requested is None:
            return remaining
        return min(requested, remaining)

    def charge(self, breakdown: Dict[str, float]) -> None:
        """Fold one campaign's ledger breakdown into the account."""
        with self._lock:
            self.ledger.compile_s += breakdown.get("compile_s", 0.0)
            self.ledger.run_s += breakdown.get("run_s", 0.0)
            self.ledger.failed_s += breakdown.get("failed_s", 0.0)
            self.ledger.retry_s += breakdown.get("retry_s", 0.0)
            self.n_campaigns += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "client": self.name,
                "budget_s": self.budget_s,
                "spent_s": self.ledger.total_s,
                "requests": self.n_requests,
                "campaigns": self.n_campaigns,
            }
