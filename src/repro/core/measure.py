"""Measurement loop: configurations in, (time | invalid) out.

The :class:`Measurer` measures configurations the way a pyopencl-based
harness drives real OpenCL (build, enqueue, read the profiled duration,
catch build/launch failures, retry transient ones) and memoizes per-
configuration state, so re-measuring a configuration only redraws
measurement noise (a real harness would likewise cache compiled binaries).
When a :class:`~repro.core.results.MeasurementDB` is attached, measured
values are written through to it and known indices are served from it
without touching the simulator, the RNG or the cost ledger (a persisted
campaign result needs no re-run after a crash).

There is one measurement engine, :meth:`Measurer.measure_batch`; a
single :meth:`Measurer.measure` is a one-position batch.  The engine is
*wave-based*.  Fault outcomes are keyed hash draws that never touch the
context RNG, backoff is a deterministic ledger charge, the retry budget
is a sum of each configuration's own charges, and drift factors are keyed
functions of the ledger clock, so whole attempt-waves of probe outcomes
are precomputable without side effects.  Every batch evaluates its
not-yet-known configurations through the simulator batch API once,
resolves each first probe's retry schedule in vectorized waves of fault
draws, draws all noise in one RNG call, and replays the one true
sequential dependency (the ledger clock, a prefix sum of prior charges
into which measured times feed back under drift) as an O(n) scalar
arithmetic scan.  Without a fault injector the schedules are the
simulator's own outcomes and there are no waves; without drift the scan
is plain ledger accumulation in input order.  The serial per-config loop
over the :mod:`repro.runtime` facade, which the engine matches bit for
bit, lives in ``tests/serial_reference.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.results import MeasurementDB
from repro.kernels.base import KernelSpec
from repro.runtime import Context
from repro.simulator.drift import DriftModel
from repro.simulator.executor import execute_batch
from repro.simulator.noise import FAILED_BUILD_COST_S, FAILED_LAUNCH_COST_S
from repro.simulator.validity import (
    STAGE_BUILD_CODE,
    STAGE_LAUNCH_CODE,
    STAGE_OK_CODE,
    validate,
)


def _empty_idx() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass
class MeasurementSet:
    """Outcome of measuring a batch of configurations.

    ``indices``/``times_s`` hold the *valid* measurements (aligned);
    ``invalid_indices`` the configurations that failed to build or launch
    *deterministically* (resource limits — re-running cannot help);
    ``quarantined_indices`` the configurations given up on after repeated
    transient failures or hangs (no measurement, but not provably invalid
    — they are missing data, reported separately so the invalid-fraction
    statistics of §5.2 stay about the configuration space, not the rig).
    """

    indices: np.ndarray
    times_s: np.ndarray
    invalid_indices: np.ndarray
    quarantined_indices: np.ndarray = field(default_factory=_empty_idx)

    @property
    def n_valid(self) -> int:
        return int(self.indices.shape[0])

    @property
    def n_invalid(self) -> int:
        return int(self.invalid_indices.shape[0])

    @property
    def n_quarantined(self) -> int:
        return int(self.quarantined_indices.shape[0])

    @property
    def invalid_fraction(self) -> float:
        total = self.n_valid + self.n_invalid
        return self.n_invalid / total if total else 0.0

    def best(self) -> tuple:
        """(index, time) of the fastest valid measurement."""
        if self.n_valid == 0:
            raise ValueError("no valid measurements")
        j = int(np.argmin(self.times_s))
        return int(self.indices[j]), float(self.times_s[j])

    def merged_with(self, other: "MeasurementSet") -> "MeasurementSet":
        return MeasurementSet(
            indices=np.concatenate([self.indices, other.indices]),
            times_s=np.concatenate([self.times_s, other.times_s]),
            invalid_indices=np.concatenate(
                [self.invalid_indices, other.invalid_indices]
            ),
            quarantined_indices=np.concatenate(
                [self.quarantined_indices, other.quarantined_indices]
            ),
        )


@dataclass
class EngineStats:
    """Observability counters of one measurement engine.

    ``n_requested`` splits into simulator evaluations (``n_simulated``),
    in-memory cache hits (``n_cache_hits``) and durable-DB hits
    (``n_db_hits``); ``n_invalid`` counts returned invalids across all
    three.  ``elapsed_s`` is harness wall-clock (not simulated seconds).

    The failure-breakdown counters are only ever non-zero under a fault
    profile: ``n_transient`` transient build/launch failures (device
    resets included), ``n_timeouts`` watchdog-killed hangs, ``n_retries``
    backoff-then-retry cycles the policy spent recovering, and
    ``n_quarantined`` configurations given up on (failed every attempt)
    — reported separately from ``n_invalid``, which stays a statement
    about the configuration space.

    ``n_waves`` counts the batch engine's vectorized fault-draw rounds,
    so it too stays 0 without a fault injector.
    """

    n_requested: int = 0
    n_simulated: int = 0
    n_cache_hits: int = 0
    n_db_hits: int = 0
    n_invalid: int = 0
    n_transient: int = 0
    n_retries: int = 0
    n_timeouts: int = 0
    n_quarantined: int = 0
    n_waves: int = 0
    elapsed_s: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests served without a simulator evaluation."""
        if self.n_requested == 0:
            return 0.0
        return (self.n_cache_hits + self.n_db_hits) / self.n_requested

    @property
    def configs_per_sec(self) -> float:
        """Measurement throughput in configurations per wall-clock second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.n_requested / self.elapsed_s

    @property
    def n_faults(self) -> int:
        """Total injected failures recovered from or given up on."""
        return self.n_transient + self.n_timeouts

    def failure_breakdown(self) -> dict:
        """The fault counters as a dict; empty when no faults were seen
        (so fault-free reports and results carry no breakdown at all)."""
        pairs = {
            "transient": self.n_transient,
            "timeouts": self.n_timeouts,
            "retries": self.n_retries,
            "quarantined": self.n_quarantined,
        }
        return {k: v for k, v in pairs.items() if v}

    def merge(self, other: "EngineStats") -> "EngineStats":
        return EngineStats(
            n_requested=self.n_requested + other.n_requested,
            n_simulated=self.n_simulated + other.n_simulated,
            n_cache_hits=self.n_cache_hits + other.n_cache_hits,
            n_db_hits=self.n_db_hits + other.n_db_hits,
            n_invalid=self.n_invalid + other.n_invalid,
            n_transient=self.n_transient + other.n_transient,
            n_retries=self.n_retries + other.n_retries,
            n_timeouts=self.n_timeouts + other.n_timeouts,
            n_quarantined=self.n_quarantined + other.n_quarantined,
            n_waves=self.n_waves + other.n_waves,
            elapsed_s=self.elapsed_s + other.elapsed_s,
        )

    def as_dict(self) -> dict:
        return {
            "n_requested": self.n_requested,
            "n_simulated": self.n_simulated,
            "n_cache_hits": self.n_cache_hits,
            "n_db_hits": self.n_db_hits,
            "n_invalid": self.n_invalid,
            "n_transient": self.n_transient,
            "n_retries": self.n_retries,
            "n_timeouts": self.n_timeouts,
            "n_quarantined": self.n_quarantined,
            "n_waves": self.n_waves,
            "elapsed_s": self.elapsed_s,
            "cache_hit_rate": self.cache_hit_rate,
            "configs_per_sec": self.configs_per_sec,
        }


class _ProbeSchedule:
    """Resolved retry schedule of one first-probe job (wave engine).

    ``events`` holds one code per attempt, in order — ``"tb"`` transient
    build, ``"binv"``/``"linv"`` deterministic build/launch invalid,
    ``"reset"``/``"hang"``/``"tl"`` injected launch failures, ``"ok"``
    success; every failed attempt but the last is followed by a backoff;
    ``outcome`` is ``'ok' | 'invalid' | 'quar'``; ``b_rolls``/``l_rolls``
    are the build/launch fault draws consumed (committed to the
    injector's attempt counters at batch commit).
    """

    __slots__ = ("events", "outcome", "b_rolls", "l_rolls")

    def __init__(self):
        self.events: List[str] = []
        self.outcome: str = ""
        self.b_rolls = 0
        self.l_rolls = 0


def _fixed_schedule(event: str, outcome: str) -> _ProbeSchedule:
    sched = _ProbeSchedule()
    sched.events = (event,)  # shared: immutable
    sched.outcome = outcome
    return sched


#: Schedules of fault-free first probes, indexed by simulator stage code
#: (OK, build-invalid, launch-invalid).  Without an injector a probe's
#: only outcome is the simulator's, so every fresh configuration shares
#: one of these three read-only instances.
_FAULT_FREE_SCHEDULES = {
    STAGE_OK_CODE: _fixed_schedule("ok", "ok"),
    STAGE_BUILD_CODE: _fixed_schedule("binv", "invalid"),
    STAGE_LAUNCH_CODE: _fixed_schedule("linv", "invalid"),
}


@dataclass(frozen=True)
class RetryPolicy:
    """How the measurer handles injected (transient) failures.

    Attributes
    ----------
    max_attempts:
        Probe attempts per configuration before giving up.  A
        configuration whose every attempt fails transiently (or hangs) is
        *quarantined*: it yields no measurement, is excluded from all
        future attempts, and is reported separately from statically
        invalid configurations.
    backoff_base_s / backoff_multiplier / backoff_max_s:
        Exponential backoff slept between attempts —
        ``min(base * multiplier**(attempt - 1), backoff_max_s)`` —
        charged to the cost ledger's ``retry_s`` bucket (waiting for a
        flaky driver is real tuning-budget time).  The cap matters:
        uncapped growth let a long transient streak charge one enormous
        sleep that blew the per-config budget in a single step.
    launch_timeout_s:
        Watchdog budget per launch, passed to ``Kernel.enqueue``; a hung
        kernel burns at most this much simulated time per attempt.
    config_budget_s:
        Simulated seconds one configuration may spend on failing: its
        failed-attempt charges (a failed build, or compile plus a failed
        launch, device reset or watchdog wait) and the backoffs between
        them, summed in attempt order.  A failed attempt that takes the
        sum past the budget quarantines the configuration even with
        attempts left, so a pathological hang-always config cannot eat
        the campaign budget.  The sum is the configuration's own (it does
        not depend on what was measured before it), which is what lets
        the batch engine resolve every retry schedule ahead of the
        ledger replay.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.1
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 5.0
    launch_timeout_s: float = 2.0
    config_budget_s: float = 30.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_multiplier < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError("backoff_max_s must be >= backoff_base_s")
        if self.launch_timeout_s <= 0 or self.config_budget_s <= 0:
            raise ValueError("timeout budgets must be positive")

    def backoff_s(self, attempt: int) -> float:
        """Backoff slept after failed attempt number ``attempt`` (1-based)."""
        return min(
            self.backoff_base_s * self.backoff_multiplier ** (attempt - 1),
            self.backoff_max_s,
        )


class Measurer:
    """Measures configurations of one kernel on one context.

    Parameters
    ----------
    context:
        Runtime context (device + seeded noise + cost ledger).
    spec:
        The benchmark to measure.
    repeats:
        Launches per measurement; the reported time is the minimum (usual
        kernel-benchmarking practice — interference only slows you down).
    db:
        Optional durable cache.  Known (kernel, device, index) entries are
        returned as-is — no simulation, no noise draws, no ledger charges —
        and new measurements are written through, which is what lets a
        killed campaign resume where it stopped.
    retry:
        :class:`RetryPolicy` applied when the context carries a fault
        injector (``Context(faults=...)``); defaults to ``RetryPolicy()``.
        Without an injector the policy is never consulted and the
        measurement path is byte-for-byte the fault-free one.
    batcher:
        Optional measurement broker (anything with a
        ``submit(measurer, indices) -> MeasurementSet`` method).  When
        set, :meth:`measure_batch` (and so :meth:`measure`, a one-position
        batch) hands the batch to the broker instead of executing it
        inline — the hook the ``repro.serve`` daemon uses to funnel
        batches from concurrent campaigns through one measurement
        pipeline.  The broker calls back into :meth:`measure_batch_direct`
        and runs one measurer's batches in submission order, so brokered
        results equal inline ones by construction.
    """

    def __init__(
        self,
        context: Context,
        spec: KernelSpec,
        repeats: int = 3,
        db: Optional[MeasurementDB] = None,
        retry: Optional[RetryPolicy] = None,
        batcher=None,
    ):
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.context = context
        self.spec = spec
        self.repeats = repeats
        self.db = db
        self.retry = retry if retry is not None else RetryPolicy()
        self.batcher = batcher
        self.stats = EngineStats()
        # index -> true time (seconds), or None for invalid.
        self._cache: Dict[int, Optional[float]] = {}
        # index -> static validity (is_valid fast path; no ledger charges).
        self._valid_cache: Dict[int, bool] = {}
        #: Configurations given up on after repeated transient failures.
        self.quarantine: set = set()

    # -- single configuration ------------------------------------------------

    def measure(self, index: int) -> Optional[float]:
        """Best-of-``repeats`` noisy measurement, or None if invalid.

        Every measurement bills exactly ``repeats`` launches: a fresh
        configuration's first (probe) launch is charged at its observed
        time plus ``repeats - 1`` re-runs; a cache-served re-measurement
        launches all ``repeats`` again.  A DB hit is served stored — no
        launches, no charges.

        With a fault injector on the context, probes are wrapped in the
        :class:`RetryPolicy` (retry transients with backoff, watchdog
        hangs, quarantine configurations that never succeed); quarantined
        configurations return None like invalid ones — use
        :meth:`measure_outcome` or :attr:`quarantine` to tell them apart.
        """
        return self.measure_outcome(index)[0]

    def measure_outcome(self, index: int) -> tuple:
        """Like :meth:`measure` but returns ``(value, outcome)`` with
        outcome one of ``'ok' | 'invalid' | 'quarantined'``.  A one-position
        :meth:`measure_batch`: same engine, broker and trace span."""
        ms = self.measure_batch([index])
        if ms.n_valid:
            return float(ms.times_s[0]), "ok"
        return None, ("quarantined" if ms.n_quarantined else "invalid")

    def is_valid(self, index: int) -> bool:
        """*Static* validity of a configuration — resource-limit rules
        only, no build, no launch, no ledger charges, no RNG draws.

        Candidate filtering (``TunerSettings.filter_known_invalid``) and
        search warm-starts call this in bulk; a validity check must never
        bill a launch.
        """
        index = int(index)
        if index in self._cache:
            return self._cache[index] is not None
        valid = self._valid_cache.get(index)
        if valid is None:
            device = self.context.device.spec
            profile = self.spec.workload(self.spec.space[index], device)
            valid = validate(profile, device).valid
            self._valid_cache[index] = valid
        return valid

    # -- batches ---------------------------------------------------------------

    def measure_batch(self, indices: Sequence[int]) -> MeasurementSet:
        """Measure many configurations in one vectorized pass.

        Bit-identical to measuring ``indices`` one at a time, in order —
        same valid/invalid/quarantined split, same measured values, same
        ledger buckets, same RNG stream consumption, same cache/DB/
        quarantine updates, same fault and drift counters — with or
        without a fault injector or drift model.  The simulator, fault
        draws and noise run over whole arrays; only the ledger clock is
        replayed as a scalar scan (see :meth:`_measure_batch_waves`).

        With a ``batcher`` attached the batch is submitted to it instead
        (see the constructor); the broker executes it through
        :meth:`measure_batch_direct` on its own schedule.
        """
        if self.batcher is not None:
            return self.batcher.submit(self, indices)
        return self.measure_batch_direct(indices)

    def measure_batch_direct(self, indices: Sequence[int]) -> MeasurementSet:
        """:meth:`measure_batch` without broker indirection — the entry
        point measurement brokers use to execute submitted batches.

        Every batch, faulted, drifting or neither, runs through the one
        wave-based engine under one ``measure.batch`` span."""
        with self.context.tracer.span("measure.batch") as span:
            return self._measure_batch_waves(indices, span)

    def _trace_batch(self, span, before: EngineStats, n_quarantined: int) -> None:
        """Fold one batch's engine counters (``self.stats`` minus
        ``before``) into the trace: the ``measure.*`` set on every batch,
        the ``fault.*`` set and ``measure.waves`` only with a fault
        injector attached, so fault-free and drift-only traces carry no
        fault block.  The span's ``quarantined`` attribute is the
        ``n_quarantined`` positions the batch returned quarantined (the
        ``fault.quarantined`` counter only counts new write-offs).
        Aggregate per batch — never per configuration — so a disabled
        tracer costs one check."""
        tracer = self.context.tracer
        if not tracer.enabled:
            return
        s = self.stats
        attrs = {
            "n": s.n_requested - before.n_requested,
            "simulated": s.n_simulated - before.n_simulated,
            "cache_hits": s.n_cache_hits - before.n_cache_hits,
            "db_hits": s.n_db_hits - before.n_db_hits,
            "invalid": s.n_invalid - before.n_invalid,
        }
        tracer.count("measure.requested", attrs["n"])
        for key in ("simulated", "cache_hits", "db_hits", "invalid"):
            tracer.count(f"measure.{key}", attrs[key])
        if self.context.faults is not None:
            faults = {
                "transient": s.n_transient - before.n_transient,
                "timeouts": s.n_timeouts - before.n_timeouts,
                "retries": s.n_retries - before.n_retries,
                "quarantined": s.n_quarantined - before.n_quarantined,
            }
            for key, value in faults.items():
                tracer.count(f"fault.{key}", value)
            waves = s.n_waves - before.n_waves
            tracer.count("measure.waves", waves)
            attrs.update(faults, quarantined=n_quarantined, waves=waves)
        span.set(**attrs)

    # -- the batch engine (wave-based) -----------------------------------------

    def _resolve_probe_jobs(
        self,
        stages: np.ndarray,
        compile_cs: np.ndarray,
        key_hashes: np.ndarray,
        b_start: np.ndarray,
        l_start: np.ndarray,
    ) -> tuple:
        """Resolve the retry schedules of many pending first-probe jobs in
        vectorized attempt waves.

        Pure: fault uniforms come from :meth:`FaultInjector.peek_uniforms`
        (no counters move), and each job's budget decision is the
        :attr:`RetryPolicy.config_budget_s` rule itself — its attempt
        charges and backoffs summed in attempt order — so the decisions
        are final.  Returns ``(schedules, waves_executed)``.
        """
        faults = self.context.faults
        prof = faults.profile
        policy = self.retry
        p_tb = prof.p_transient_build
        p_reset = prof.p_device_reset
        p_hang = prof.p_hang
        p_total = p_reset + p_hang + prof.p_transient_launch
        hang_w = min(prof.hang_duration_s, policy.launch_timeout_s)
        budget = policy.config_budget_s
        m = len(stages)
        scheds = [_ProbeSchedule() for _ in range(m)]
        pending = np.ones(m, dtype=bool)
        # Build-stage invalids resolve before any fault roll: validate
        # raises ahead of the injector in Program.build.
        for j in np.flatnonzero(stages == STAGE_BUILD_CODE):
            scheds[j].events.append("binv")
            scheds[j].outcome = "invalid"
            pending[j] = False
        spend = np.zeros(m)
        b_used = np.zeros(m, dtype=np.int64)
        l_used = np.zeros(m, dtype=np.int64)
        waves = 0
        for attempt in range(1, policy.max_attempts + 1):
            act = np.flatnonzero(pending)
            if act.size == 0:
                break
            waves += 1
            code = np.full(act.size, "ok", dtype=object)
            if p_tb > 0.0:
                ub = faults.peek_uniforms(
                    "build", key_hashes[act], b_start[act] + b_used[act]
                )
                b_used[act] += 1
                code[ub < p_tb] = "tb"
            built = code != "tb"
            linv = built & (stages[act] == STAGE_LAUNCH_CODE)
            code[linv] = "linv"
            launchable = np.flatnonzero(built & ~linv)
            if p_total > 0.0 and launchable.size:
                sel = act[launchable]
                ul = faults.peek_uniforms(
                    "launch", key_hashes[sel], l_start[sel] + l_used[sel]
                )
                l_used[sel] += 1
                code[launchable[ul < p_reset]] = "reset"
                code[launchable[(ul >= p_reset) & (ul < p_reset + p_hang)]] = "hang"
                code[launchable[(ul >= p_reset + p_hang) & (ul < p_total)]] = "tl"
            # The configuration's own spend, in attempt order.
            charge = np.where(code == "tb", FAILED_BUILD_COST_S, compile_cs[act])
            charge = charge + np.select(
                [code == "linv", code == "tl", code == "reset", code == "hang"],
                [FAILED_LAUNCH_COST_S, FAILED_LAUNCH_COST_S,
                 prof.reset_cost_s, hang_w],
                default=0.0,
            )
            spend[act] += charge
            for pos, j in enumerate(act):
                s = scheds[j]
                ev = code[pos]
                s.events.append(ev)
                if ev == "ok":
                    s.outcome = "ok"
                    pending[j] = False
                elif ev == "linv":
                    s.outcome = "invalid"
                    pending[j] = False
                elif spend[j] > budget:
                    s.outcome = "quar"
                    pending[j] = False
                elif attempt < policy.max_attempts:
                    spend[j] += policy.backoff_s(attempt)
        for j in np.flatnonzero(pending):
            scheds[j].outcome = "quar"
        for j, s in enumerate(scheds):
            s.b_rolls = int(b_used[j])
            s.l_rolls = int(l_used[j])
        return scheds, waves

    def _measure_batch_waves(self, indices: Sequence[int], span) -> MeasurementSet:
        """The batch engine: vectorized measurement, bit-identical to the
        serial per-config loop with or without faults and drift.

        Phases:

        1. *classify & resolve* — evaluate every configuration the batch
           has to probe through the simulator batch API once (configs
           cached at entry too, when a first probe in the batch can reset
           the device and so revive them); under faults, resolve the retry
           schedule of every first-probe job in vectorized attempt waves
           of keyed fault draws (reset-revived configurations trigger
           rare on-demand re-resolutions with continued attempt
           counters), while fault-free probes take the simulator's
           outcome; walk the positions once to fix each position's
           outcome and RNG draw count;
        2. *draw* — all measurement noise in a single RNG call, gathered
           into per-position probe factors and best-of-``repeats``
           minima; all outlier uniforms in one vectorized peek;
        3. *commit scan* — an O(n) scalar arithmetic replay of the ledger
           charges in serial order (under drift the clock is a prefix sum
           of charges into which measured times feed back), applying
           drift factors from per-regime batched quirk draws;
        4. *commit* — ledger buckets, stats, caches, quarantine, injector
           counters, drift counters, DB write-through, trace counters.

        Phases 1-3 only read shared state (phase 2 draws the RNG); phase 4
        writes everything else once.
        """
        t0 = time.perf_counter()
        before = replace(self.stats)
        ctx = self.context
        faults = ctx.faults
        drift = ctx.drift
        policy = self.retry
        repeats = self.repeats
        model = ctx.measurement
        sigma = model.device.timing_noise_sigma
        device = ctx.device.spec
        kernel_name = self.spec.name
        device_name = device.name
        db = self.db
        cache = self._cache
        idx: List[int] = [int(i) for i in indices]
        n = len(idx)

        # -- unique indices, DB and cache state at entry, batch simulation --
        uniq = list(dict.fromkeys(idx))
        db_known: Dict[int, Optional[float]] = (
            db.get_many(kernel_name, device_name, uniq) if db is not None else {}
        )
        live = [i for i in uniq if i not in db_known]
        # The batch's view of the compile cache: only its own indices are
        # ever looked up, so copying those (not the whole cache) suffices.
        local_cache = {i: cache[i] for i in live if i in cache}
        # Quarantine only exists under faults.
        quarantine = self.quarantine if faults is not None else ()
        # First probes: the configurations this batch builds and launches.
        new_ids = [
            i for i in live if i not in local_cache and i not in quarantine
        ]
        # Only a first probe can reset the device, wiping the compile cache
        # mid-batch; configurations cached at entry need a base time only
        # then, since a reset revives them.
        revive = (
            faults is not None
            and faults.profile.p_device_reset > 0.0
            and bool(new_ids)
        )
        sim_ids = live if revive else new_ids
        stage_of: Dict[int, int] = {}
        base_of: Dict[int, Optional[float]] = {}
        compile_of: Dict[int, float] = {}
        tuples_of: Dict[int, tuple] = {}
        if sim_ids:
            sim_arr = np.asarray(sim_ids, dtype=np.int64)
            tuples = self.spec.config_tuples(sim_arr)
            wb = self.spec.workload_batch(sim_arr, device, config_tuples=tuples)
            be = execute_batch(
                wb, device, kernel_name=kernel_name, config_tuples=tuples
            )
            compile_costs = device.compile_time_base_s + (
                device.compile_time_per_unroll_s * (wb.unroll_factor - 1)
            )
            stages = be.stages.tolist()
            stage_of = dict(zip(sim_ids, stages))
            base_of = {
                i: (t if s == STAGE_OK_CODE else None)
                for i, s, t in zip(sim_ids, stages, be.times.tolist())
            }
            compile_of = dict(zip(sim_ids, compile_costs.tolist()))
            if faults is not None:
                tuples_of = dict(zip(sim_ids, tuples))
        # Fault config keys and drift quirk keys share one structure:
        # part64((kernel, config_tuple)) per configuration; outlier keys
        # are part64((kernel, index)).  Rows follow `live`.
        pos_of: Dict[int, int] = {}
        cfg_hashes = np.empty(0, dtype=np.uint64)
        okey_hashes = np.empty(0, dtype=np.uint64)
        p_outlier = faults.profile.p_outlier if faults is not None else 0.0
        need_cfg = faults is not None or (
            drift is not None and drift.profile.contention_sigma > 0.0
        )
        if live and (need_cfg or p_outlier > 0.0):
            live_arr = np.asarray(live, dtype=np.int64)
            pos_of = {i: j for j, i in enumerate(live)}
            if need_cfg:
                int_matrix = self.spec.space.int_values_matrix(live_arr)
                cfg_hashes = DriftModel.quirk_key_hashes(kernel_name, int_matrix)
            if p_outlier > 0.0:
                okey_hashes = faults.index_key_hashes(kernel_name, live_arr)

        # -- phase 1a: resolve first-probe retry schedules in waves ---------
        scheds_by_index: Dict[int, _ProbeSchedule] = {}
        waves = 0
        if faults is not None and new_ids:
            jsel = np.asarray([pos_of[i] for i in new_ids], dtype=np.int64)
            b0 = np.asarray(
                [faults.attempts_of("build", (kernel_name, tuples_of[i]))
                 for i in new_ids], dtype=np.int64,
            )
            l0 = np.asarray(
                [faults.attempts_of("launch", (kernel_name, tuples_of[i]))
                 for i in new_ids], dtype=np.int64,
            )
            scheds, waves = self._resolve_probe_jobs(
                np.asarray([stage_of[i] for i in new_ids], dtype=np.int64),
                np.asarray([compile_of[i] for i in new_ids]),
                cfg_hashes[jsel],
                b0,
                l0,
            )
            scheds_by_index = dict(zip(new_ids, scheds))

        # -- phase 1b: classification scan (no RNG, no ledger floats) -------
        # Entry tuples: (type, schedule-or-None, base-or-None) per position.
        E_DB, E_CACHED_OK, E_CACHED_INV, E_FRESH, E_QUAR = range(5)
        reset_seen = False
        q_local: set = set()
        resolved: set = set()
        entries: List[tuple] = []
        counts = [0] * n
        fresh_draws = 1 + repeats if sigma != 0.0 else 0
        cached_draws = repeats if sigma != 0.0 else 0
        consumed_b: Dict[int, int] = {}
        consumed_l: Dict[int, int] = {}
        outlier_n: Dict[int, int] = {}
        outlier_jobs: List[tuple] = []  # (position, index, in-batch roll no.)
        for p, i in enumerate(idx):
            if db is not None and (i in db_known or i in resolved):
                entries.append((E_DB, None, None))
                continue
            if i in quarantine or i in q_local:
                entries.append((E_QUAR, None, None))
                continue
            if i in local_cache:
                base = local_cache[i]
                if base is None:
                    entries.append((E_CACHED_INV, None, None))
                else:
                    entries.append((E_CACHED_OK, None, base))
                    counts[p] = cached_draws
                    if p_outlier > 0.0:
                        a = outlier_n.get(i, 0)
                        outlier_n[i] = a + 1
                        outlier_jobs.append((p, i, a))
                if db is not None:
                    resolved.add(i)
                continue
            # Fresh: a first probe — its schedule drives the commit scan.
            if faults is not None:
                sched = scheds_by_index.pop(i, None)
                if sched is None:
                    # Reset-revived configuration: re-probe with continued
                    # attempt counters (rare — only after a device reset).
                    key = (kernel_name, tuples_of[i])
                    one, w = self._resolve_probe_jobs(
                        np.asarray([stage_of[i]], dtype=np.int64),
                        np.asarray([compile_of[i]]),
                        cfg_hashes[[pos_of[i]]],
                        np.asarray(
                            [faults.attempts_of("build", key)
                             + consumed_b.get(i, 0)], dtype=np.int64,
                        ),
                        np.asarray(
                            [faults.attempts_of("launch", key)
                             + consumed_l.get(i, 0)], dtype=np.int64,
                        ),
                    )
                    sched = one[0]
                    waves += w
                consumed_b[i] = consumed_b.get(i, 0) + sched.b_rolls
                consumed_l[i] = consumed_l.get(i, 0) + sched.l_rolls
                if revive and "reset" in sched.events:
                    local_cache.clear()
                    reset_seen = True
            else:
                sched = _FAULT_FREE_SCHEDULES[stage_of[i]]
            entries.append((E_FRESH, sched, base_of[i]))
            if sched.outcome == "ok":
                local_cache[i] = base_of[i]
                counts[p] = fresh_draws
                if db is not None:
                    resolved.add(i)
                if p_outlier > 0.0:
                    a = outlier_n.get(i, 0)
                    outlier_n[i] = a + 1
                    outlier_jobs.append((p, i, a))
            elif sched.outcome == "invalid":
                local_cache[i] = None
                if db is not None:
                    resolved.add(i)
            else:
                q_local.add(i)

        # -- phase 2: all noise in one RNG call, outliers in one peek -------
        # A position's draws are its probe launch (fresh configurations
        # only) followed by its `repeats` best-of launches.  Best-of is
        # taken as t * min(f): rounding t * f is monotonic in f for t > 0,
        # so this equals the minimum of the rounded products exactly.
        count_arr = np.asarray(counts, dtype=np.int64)
        total_draws = int(count_arr.sum())
        probe_f: List[float] = []
        best_f: List[float] = []
        if total_draws:
            factors = np.exp(sigma * model.rng.standard_normal(total_draws))
            ends = np.cumsum(count_arr)
            drawn = count_arr > 0
            last = ends[drawn] - repeats
            best = np.zeros(n)
            best[drawn] = factors[last[:, None] + np.arange(repeats)].min(axis=1)
            probed = count_arr > repeats
            probe = np.zeros(n)
            probe[probed] = factors[ends[probed] - count_arr[probed]]
            best_f = best.tolist()
            probe_f = probe.tolist()
        outlier_hit_at: Dict[int, bool] = {}
        if outlier_jobs:
            khs = np.asarray(
                [okey_hashes[pos_of[i]] for _, i, _ in outlier_jobs],
                dtype=np.uint64,
            )
            atts = np.asarray(
                [faults.attempts_of("outlier", (kernel_name, i)) + a
                 for _, i, a in outlier_jobs], dtype=np.int64,
            )
            u_out = faults.peek_uniforms("outlier", khs, atts)
            for (p, _, _), u in zip(outlier_jobs, u_out):
                outlier_hit_at[p] = bool(u < p_outlier)

        # -- phase 3: commit scan (exact ledger replay + drift clock) -------
        ledger = ctx.ledger
        c = ledger.compile_s
        r = ledger.run_s
        f_ = ledger.failed_s
        ry = ledger.retry_s
        idle = drift.idle_s if drift is not None else 0.0
        csigma = drift.profile.contention_sigma if drift is not None else 0.0
        d_last = drift.last_regime if drift is not None else 0
        d_shifts = drift.shifts_seen if drift is not None else 0
        d_applied = drift.applied if drift is not None else 0
        regime_globals: Dict[int, float] = {}
        quirk_rows: Dict[int, np.ndarray] = {}

        def drift_factor(t_s: float, i: int) -> float:
            # Replicates DriftModel.factor (counters included), with the
            # per-config quirks drawn once per regime for the whole batch.
            nonlocal d_last, d_shifts, d_applied
            regime = drift.regime_at(t_s)
            if regime != d_last:
                d_shifts += 1
                d_last = regime
            g = regime_globals.get(regime)
            if g is None:
                g = drift.regime_global(regime)
                regime_globals[regime] = g
            if regime <= 0 or csigma == 0.0:
                q = 1.0
            else:
                row = quirk_rows.get(regime)
                if row is None:
                    row = drift.regime_quirks_many(regime, cfg_hashes)
                    quirk_rows[regime] = row
                q = row[pos_of[i]]
            fac = drift.throttle_at(t_s) * g * q
            if fac != 1.0:
                d_applied += 1
            return fac

        hang_w = 0.0
        reset_cost = 0.0
        outlier_factor = 1.0
        if faults is not None:
            hang_w = min(faults.profile.hang_duration_s, policy.launch_timeout_s)
            reset_cost = faults.profile.reset_cost_s
            outlier_factor = faults.profile.outlier_factor
        ok_idx: List[int] = []
        ok_times: List[float] = []
        bad_idx: List[int] = []
        quarantined_idx: List[int] = []
        values: Dict[int, Optional[float]] = {}
        n_sim = n_cache = n_db = n_inv = 0
        inj_tb = inj_tl = inj_hang = inj_reset = inj_out = 0
        st_retries = st_quar = 0
        for p, i in enumerate(idx):
            typ, sched, base = entries[p]
            if typ == E_DB:
                v = db_known[i] if i in db_known else values[i]
                n_db += 1
                if v is None:
                    n_inv += 1
                    bad_idx.append(i)
                else:
                    ok_idx.append(i)
                    ok_times.append(float(v))
                continue
            if typ == E_QUAR:
                quarantined_idx.append(i)
                continue
            if typ == E_CACHED_INV:
                n_cache += 1
                n_inv += 1
                values[i] = None
                bad_idx.append(i)
                continue
            if typ == E_CACHED_OK:
                n_cache += 1
                if drift is not None:
                    t2 = base * drift_factor((c + r + f_ + ry) + idle, i)
                else:
                    t2 = base
                r += t2 * repeats
                value = float(t2 * best_f[p]) if sigma != 0.0 else float(t2)
                if outlier_hit_at.get(p):
                    value = value * outlier_factor
                    inj_out += 1
                values[i] = value
                ok_idx.append(i)
                ok_times.append(value)
                continue
            # E_FRESH: replay the resolved schedule charge for charge; a
            # backoff follows every failed attempt but the schedule's last.
            n_attempts = len(sched.events)
            for a_no, ev in enumerate(sched.events, start=1):
                if ev == "ok":  # compile, then the probe launch
                    c += compile_of[i]
                    if drift is not None:
                        t1 = base * drift_factor((c + r + f_ + ry) + idle, i)
                    else:
                        t1 = base
                    r += float(t1 * probe_f[p]) if sigma != 0.0 else t1
                    continue
                if ev == "tb":
                    f_ += FAILED_BUILD_COST_S
                    inj_tb += 1
                elif ev == "binv":
                    f_ += FAILED_BUILD_COST_S
                elif ev == "linv":
                    c += compile_of[i]
                    f_ += FAILED_LAUNCH_COST_S
                elif ev == "reset":
                    c += compile_of[i]
                    f_ += reset_cost
                    inj_reset += 1
                elif ev == "hang":
                    c += compile_of[i]
                    f_ += hang_w
                    inj_hang += 1
                elif ev == "tl":
                    c += compile_of[i]
                    f_ += FAILED_LAUNCH_COST_S
                    inj_tl += 1
                if a_no < n_attempts:
                    ry += policy.backoff_s(a_no)
                    st_retries += 1
            if sched.outcome == "ok":
                n_sim += 1
                if drift is not None:
                    t2 = base * drift_factor((c + r + f_ + ry) + idle, i)
                else:
                    t2 = base
                r += t2 * (repeats - 1)
                value = float(t2 * best_f[p]) if sigma != 0.0 else float(t2)
                if outlier_hit_at.get(p):
                    value = value * outlier_factor
                    inj_out += 1
                values[i] = value
                ok_idx.append(i)
                ok_times.append(value)
            elif sched.outcome == "invalid":
                n_sim += 1
                n_inv += 1
                values[i] = None
                bad_idx.append(i)
            else:
                st_quar += 1
                quarantined_idx.append(i)

        # -- phase 4: commit -------------------------------------------------
        ledger.compile_s = float(c)
        ledger.run_s = float(r)
        ledger.failed_s = float(f_)
        ledger.retry_s = float(ry)
        if reset_seen:
            cache.clear()
        cache.update(local_cache)
        self.quarantine |= q_local
        if faults is not None:
            for i, nb in consumed_b.items():
                faults.bump_attempts("build", (kernel_name, tuples_of[i]), nb)
            for i, nl in consumed_l.items():
                faults.bump_attempts("launch", (kernel_name, tuples_of[i]), nl)
            for i, no in outlier_n.items():
                faults.bump_attempts("outlier", (kernel_name, i), no)
            inj = faults.injected
            inj["transient_build"] += inj_tb
            inj["transient_launch"] += inj_tl
            inj["hang"] += inj_hang
            inj["reset"] += inj_reset
            inj["outlier"] += inj_out
        if drift is not None:
            drift.last_regime = d_last
            drift.shifts_seen = d_shifts
            drift.applied = d_applied
        if db is not None and values:
            db.put_many(kernel_name, device_name, values)
        stats = self.stats
        stats.n_requested += n
        stats.n_simulated += n_sim
        stats.n_cache_hits += n_cache
        stats.n_db_hits += n_db
        stats.n_invalid += n_inv
        stats.n_transient += inj_tb + inj_tl + inj_reset
        stats.n_timeouts += inj_hang
        stats.n_retries += st_retries
        stats.n_quarantined += st_quar
        stats.n_waves += waves
        stats.elapsed_s += time.perf_counter() - t0
        self._trace_batch(span, before, len(quarantined_idx))
        return MeasurementSet(
            indices=np.asarray(ok_idx, dtype=np.int64),
            times_s=np.asarray(ok_times, dtype=np.float64),
            invalid_indices=np.asarray(bad_idx, dtype=np.int64),
            quarantined_indices=np.asarray(quarantined_idx, dtype=np.int64),
        )

    def sample_and_measure(
        self, n: int, rng: np.random.Generator
    ) -> MeasurementSet:
        """Stage one of the tuner: measure ``n`` uniform random configs."""
        indices = self.spec.space.sample_indices(n, rng)
        return self.measure_batch(indices)
