"""The serial per-configuration measurement loop: the batch engine's
reference.

:class:`SerialReference` measures one configuration at a time by driving
the :mod:`repro.runtime` facade the way a pyopencl-based harness drives
real OpenCL: build, enqueue, read the profiled duration, catch
build/launch failures.  Under a fault injector it retries transient
failures with backoff, drops its compile cache on a device reset, and
quarantines configurations that keep failing.  The per-configuration
budget is decided on the configuration's own spend, its failed-attempt
charges and backoffs summed in attempt order, as
:class:`~repro.core.measure.RetryPolicy` defines it.

Production code has one measurement path, ``Measurer.measure_batch`` (a
single ``measure()`` is a one-position batch).  The equivalence suites
and the engine's perf gates compare it with this loop bit for bit: same
values, splits, ledger buckets, RNG stream position, caches, quarantine
set, injector and drift counters.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.measure import MeasurementSet, Measurer
from repro.runtime import (
    BuildError,
    DeviceResetError,
    LaunchError,
    Program,
    TimeoutError,
    TransientError,
)
from repro.simulator.noise import (
    FAILED_BUILD_COST_S,
    FAILED_LAUNCH_COST_S,
    compile_time,
)

_QUARANTINED = "quarantined"


class SerialReference(Measurer):
    """The per-config loop: one :meth:`measure_outcome` per position, in
    order.  Same constructor, caches, stats and quarantine set as the
    production :class:`~repro.core.measure.Measurer`; only the engine
    differs (and it never touches ``stats.n_waves``)."""

    def true_time(
        self, index: int, timeout_s: Optional[float] = None
    ) -> Optional[float]:
        """Noise-free time of a configuration through the runtime facade,
        or None if invalid.

        The first call per configuration pays build cost in the ledger
        (and failure cost for invalid ones) and bills its probe launch at
        the observed time.  Deterministic failures are cached as None;
        injected failures (:class:`TransientError`, :class:`TimeoutError`)
        propagate uncached, since a retry may succeed.  ``timeout_s`` is
        the per-launch watchdog forwarded to the runtime.
        """
        index = int(index)
        if index in self._cache:
            return self._cache[index]
        config = self.spec.space[index]
        try:
            kernel = Program(self.context, self.spec, config).build()
            event = kernel.enqueue(timeout_s=timeout_s)
        except (BuildError, LaunchError):
            self._cache[index] = None
            return None
        self._cache[index] = event.true_duration_s
        return event.true_duration_s

    def measure_outcome(self, index: int) -> tuple:
        t0 = time.perf_counter()
        index = int(index)
        self.stats.n_requested += 1
        kernel = self.spec.name
        device = self.context.device.name
        if self.db is not None and self.db.has(kernel, device, index):
            value = self.db.get(kernel, device, index)
            self.stats.n_db_hits += 1
            if value is None:
                self.stats.n_invalid += 1
            self.stats.elapsed_s += time.perf_counter() - t0
            return value, ("invalid" if value is None else "ok")
        faults = self.context.faults
        if faults is not None and index in self.quarantine:
            # Already written off; do not burn budget on it again.
            self.stats.elapsed_s += time.perf_counter() - t0
            return None, "quarantined"
        fresh = index not in self._cache
        if faults is None or not fresh:
            # Fault-free path, or a cached re-measure (no probe launch, so
            # no fault surface beyond the outlier roll below).
            true = self.true_time(index)
        else:
            true = self._probe_with_retry(index)
            if true is _QUARANTINED:
                self.stats.elapsed_s += time.perf_counter() - t0
                return None, "quarantined"
        if fresh:
            self.stats.n_simulated += 1
        else:
            self.stats.n_cache_hits += 1
        if true is None:
            self.stats.n_invalid += 1
            if self.db is not None:
                self.db.put(kernel, device, index, None)
            self.stats.elapsed_s += time.perf_counter() - t0
            return None, "invalid"
        drift = self.context.drift
        if drift is not None:
            # The cache keeps the *base* true time; the machine as it is
            # right now is base x drift factor at the current clock.
            true = true * drift.factor(
                drift.time_of(self.context.ledger),
                kernel,
                self.spec.config_tuple(self.spec.space[index]),
            )
        # A fresh configuration's probe launch was billed by the runtime,
        # so it adds repeats - 1 re-runs; a cached one launches repeats.
        self.context.ledger.run_s += true * (
            self.repeats - 1 if fresh else self.repeats
        )
        value = self.context.measurement.best_of(true, self.repeats)
        if faults is not None:
            value = faults.on_measurement((kernel, index), value)
        if self.db is not None:
            self.db.put(kernel, device, index, value)
        self.stats.elapsed_s += time.perf_counter() - t0
        return value, "ok"

    def _probe_with_retry(self, index: int):
        """First probe of a configuration under fault injection.

        Returns the true time, None for a deterministic invalid, or
        :data:`_QUARANTINED` when the retry policy gives up.  Each failed
        attempt adds its charge to the configuration's own spend: a failed
        build, or compile plus the failed launch, device reset or watchdog
        wait.  A backoff follows every failed attempt that neither exhausts
        the attempts nor takes the spend past ``config_budget_s``.
        """
        policy = self.retry
        stats = self.stats
        config = self.spec.space[index]
        compile_s = compile_time(
            self.context.device.spec, self.spec.unroll_of(config)
        )
        spent = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return self.true_time(index, timeout_s=policy.launch_timeout_s)
            except TimeoutError as err:
                stats.n_timeouts += 1
                spent += compile_s + err.waited_s
            except DeviceResetError:
                stats.n_transient += 1
                # Compiled binaries do not survive a reset: forget probed
                # true times so later re-measures rebuild (and re-bill).
                self._cache.clear()
                spent += compile_s + self.context.faults.profile.reset_cost_s
            except TransientError as err:
                stats.n_transient += 1
                if err.stage == "build":
                    spent += FAILED_BUILD_COST_S
                else:
                    spent += compile_s + FAILED_LAUNCH_COST_S
            if spent > policy.config_budget_s:
                break
            if attempt < policy.max_attempts:
                backoff = policy.backoff_s(attempt)
                self.context.ledger.retry_s += backoff
                spent += backoff
                stats.n_retries += 1
        self.quarantine.add(index)
        stats.n_quarantined += 1
        return _QUARANTINED

    def measure_batch(self, indices: Sequence[int]) -> MeasurementSet:
        ok_idx: List[int] = []
        ok_times: List[float] = []
        bad_idx: List[int] = []
        quarantined_idx: List[int] = []
        for i in indices:
            i = int(i)
            value, outcome = self.measure_outcome(i)
            if outcome == "ok":
                ok_idx.append(i)
                ok_times.append(float(value))
            elif outcome == "quarantined":
                quarantined_idx.append(i)
            else:
                bad_idx.append(i)
        return MeasurementSet(
            indices=np.asarray(ok_idx, dtype=np.int64),
            times_s=np.asarray(ok_times, dtype=np.float64),
            invalid_indices=np.asarray(bad_idx, dtype=np.int64),
            quarantined_indices=np.asarray(quarantined_idx, dtype=np.int64),
        )
