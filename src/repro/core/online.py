"""Online dynamic re-tuning: keep the pick good while the machine drifts.

The paper tunes once per (kernel, device) and stops; a long-lived service
has to keep serving its pick while clocks throttle and co-tenants come
and go (:mod:`repro.simulator.drift`).  Re-running the whole two-stage
pipeline on every suspicion would burn the very budget the tuner exists
to save — CLTune-style full re-searches are exactly what this module
avoids.  Instead:

1. **tune once** — a normal :class:`~repro.core.tuner.MLAutoTuner` run
   produces the incumbent configuration and the fitted model;
2. **monitor** — each serving step re-measures the incumbent (charged to
   the ledger like any measurement) and feeds the residual against the
   model's prediction to a :class:`~repro.core.drift.CusumDetector`;
3. **respond on alarm** — *incremental* recovery at a fraction of a
   campaign, in two transfer-ranked rounds.  Round one re-measures the
   model's current top-``retune_window`` (mostly compile-cached, so the
   spend is launches — not builds), estimates the global shift ratio
   from the incumbent's residual, and refits the model on the
   ratio-rescaled stage-one data plus the fresh measurements (window
   invalids are remembered and excluded from later windows — never
   penalty-fitted, which would pollute the near-optimal neighborhood
   the response needs ranked accurately).  Round two re-ranks with the
   *refitted* model —
   which now knows the post-shift reordering round one revealed — and
   measures a second, disjoint window; the best measurement across both
   rounds becomes the new incumbent.  The detector recalibrates on the
   post-response stream.

Everything — monitoring probes, window re-measurement — is charged
through the context's :class:`~repro.simulator.noise.CostLedger`; the
recovery benchmark (``benchmarks/test_perf_drift.py``) gates the response
at <= 50% of a from-scratch tune's spend while landing within 5% of the
post-shift oracle optimum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.drift import CusumDetector, DetectorSettings
from repro.core.measure import Measurer
from repro.core.results import TuningResult
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.kernels.base import KernelSpec
from repro.runtime import Context


@dataclass(frozen=True)
class OnlineSettings:
    """Knobs of the online monitoring / re-tuning loop.

    Attributes
    ----------
    steps:
        Monitoring steps after the initial tune.  Each step measures the
        incumbent once (best-of-``repeats``, ledger-charged) and feeds
        the detector.
    step_interval_s:
        Simulated seconds of *serving* time between monitoring probes —
        production time keeps passing even when no tuning budget is being
        spent, which is what advances the drift clock
        (:meth:`~repro.simulator.drift.DriftModel.advance`) between
        measurements.
    detector:
        :class:`~repro.core.drift.DetectorSettings` of the CUSUM monitor.
    retune_window:
        Transfer-ranked candidates (the model's current top-M) re-measured
        per response round; a response runs two rounds (pre- and
        post-refit ranking), so up to ``2 x retune_window`` fresh
        measurements per alarm.  Small by design: the ranking knowledge
        transfers across a drift shift far better than the absolute
        times do.
    max_retunes:
        Alarms answered before the loop stops responding (a machine that
        drifts every few steps needs an operator, not a bigger window);
        further alarms are still counted and traced.
    warm_start_refits:
        When True (the default), alarm-response refits re-train the
        existing ensemble weights in place instead of from random init
        — the post-shift surface is a rescaled version of the one the
        weights already encode, so recovery pays tens of epochs instead
        of thousands (wall-clock only; the simulated-cost ledger is
        unaffected).  False restores cold refits.
    """

    steps: int = 200
    step_interval_s: float = 30.0
    detector: DetectorSettings = field(default_factory=DetectorSettings)
    retune_window: int = 32
    max_retunes: int = 8
    warm_start_refits: bool = True

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.step_interval_s < 0:
            raise ValueError("step_interval_s must be >= 0")
        if self.retune_window < 1:
            raise ValueError("retune_window must be >= 1")
        if self.max_retunes < 0:
            raise ValueError("max_retunes must be >= 0")


@dataclass
class RetuneEvent:
    """One answered alarm: what the response did and what it cost."""

    step: int
    at_s: float          # drift-clock time of the alarm
    cost_s: float        # ledger spend of the response
    ratio: float         # estimated global shift (measured / predicted)
    old_index: int
    new_index: int
    new_time_s: float    # the new incumbent's window measurement
    fit_wall_s: float = 0.0  # real seconds spent refitting the model
    fit_epochs: int = 0      # training epochs across this response's refits

    def as_dict(self) -> Dict[str, Any]:
        # fit_wall_s stays off the payload on purpose: as_dict feeds the
        # trace stream and the deterministic-replay comparison, and real
        # wall time is the one nondeterministic field.  Read it from the
        # event object (or OnlineReport.retune_fit_wall_s) instead.
        return {
            "step": self.step,
            "at_s": self.at_s,
            "cost_s": self.cost_s,
            "ratio": self.ratio,
            "old_index": self.old_index,
            "new_index": self.new_index,
            "new_time_s": self.new_time_s,
            "fit_epochs": self.fit_epochs,
        }


@dataclass
class OnlineReport:
    """Outcome of one online campaign: initial tune, monitoring loop and
    the detector's final :meth:`~repro.core.drift.CusumDetector.snapshot`."""

    kernel: str
    device: str
    initial: TuningResult
    incumbent: int
    steps: int
    alarms: int
    skipped: int                      # monitoring steps with no measurement
    initial_cost_s: float
    monitor_cost_s: float
    retunes: List[RetuneEvent]
    trajectory: List[Dict[str, Any]]  # per-step monitoring record
    detector: Dict[str, Any]

    @property
    def retune_cost_s(self) -> float:
        return float(sum(e.cost_s for e in self.retunes))

    @property
    def retune_fit_wall_s(self) -> float:
        """Real seconds spent refitting the model across all responses."""
        return float(sum(e.fit_wall_s for e in self.retunes))

    @property
    def total_cost_s(self) -> float:
        return self.initial_cost_s + self.monitor_cost_s + self.retune_cost_s

    def as_dict(self, include_trajectory: bool = False) -> Dict[str, Any]:
        out = {
            "kernel": self.kernel,
            "device": self.device,
            "incumbent": self.incumbent,
            "steps": self.steps,
            "alarms": self.alarms,
            "skipped": self.skipped,
            "initial_cost_s": self.initial_cost_s,
            "monitor_cost_s": self.monitor_cost_s,
            "retune_cost_s": self.retune_cost_s,
            "total_cost_s": self.total_cost_s,
            "retunes": [e.as_dict() for e in self.retunes],
        }
        if include_trajectory:
            out["trajectory"] = self.trajectory
        return out


class OnlineTuner:
    """Tune once, then monitor-and-respond for one (kernel, device) pair.

    Usage::

        ctx = Context(NVIDIA_K40, seed=7, drift="thermal-throttle")
        online = OnlineTuner(ctx, ConvolutionKernel())
        report = online.run(np.random.default_rng(7), model_seed=7)

    Works identically with no drift attached (the detector simply never
    fires on a quiet machine — the false-positive gate of
    ``tests/test_online.py``) and composes with fault profiles: the
    measurer's retry/quarantine machinery handles faults under the loop.
    """

    def __init__(
        self,
        context: Context,
        spec: KernelSpec,
        settings: Optional[OnlineSettings] = None,
        tune_settings: Optional[TunerSettings] = None,
        measurer: Optional[Measurer] = None,
    ):
        self.context = context
        self.spec = spec
        self.settings = settings if settings is not None else OnlineSettings()
        tune_settings = (
            tune_settings if tune_settings is not None else TunerSettings()
        )
        if tune_settings.freeze_patience is None:
            # Member-wise freezing is a *campaign* optimization.  The
            # online loop's transfer-ranked windows consume the model's
            # ranking directly, and the freeze approximation measurably
            # degrades it (the drift benchmark's post-shift optimum falls
            # off the re-measure window).  Unless the caller explicitly
            # chose freeze thresholds, pin the whole online chain —
            # initial tune and refits — to the reference-quality loop
            # (``freeze_patience=inf`` is bit-identical to classic); warm
            # round-two refits provide the online-path speedup instead.
            tune_settings = replace(tune_settings, freeze_patience=math.inf)
        self.tune_settings = tune_settings
        self.measurer = measurer or Measurer(
            context, spec, repeats=self.tune_settings.repeats
        )
        self.detector = CusumDetector(
            self.settings.detector, tracer=context.tracer
        )
        self.model = None
        self._train_idx: Optional[np.ndarray] = None
        self._train_times: Optional[np.ndarray] = None
        self._scale = 1.0
        self._known_invalid: set = set()
        # Per-response refit accounting (real wall time + epochs), reset
        # by _respond and snapshotted into each RetuneEvent.
        self._fit_wall_s = 0.0
        self._fit_epochs = 0

    # -- the loop --------------------------------------------------------------

    def run(
        self,
        rng: np.random.Generator,
        model_seed: Optional[int] = None,
    ) -> OnlineReport:
        """Initial tune, then ``settings.steps`` of monitor-and-respond."""
        ctx = self.context
        tracer = ctx.tracer
        ledger = ctx.ledger
        cost0 = ledger.total_s
        with tracer.span(
            "online.campaign", kernel=self.spec.name, device=ctx.device.name
        ) as campaign_span:
            tuner = MLAutoTuner(
                ctx, self.spec, self.tune_settings, measurer=self.measurer
            )
            initial = tuner.tune(rng, model_seed=model_seed)
            initial_cost = ledger.total_s - cost0
            trajectory: List[Dict[str, Any]] = []
            retunes: List[RetuneEvent] = []
            skipped = 0
            incumbent = initial.best_index
            self.model = tuner.model
            if initial.failed or self.model is None:
                # Nothing to monitor: no pick, or no model to predict with
                # (budget death in stage one).  Report the degraded tune.
                campaign_span.set(degraded=True)
                return OnlineReport(
                    kernel=self.spec.name,
                    device=ctx.device.name,
                    initial=initial,
                    incumbent=incumbent,
                    steps=0,
                    alarms=0,
                    skipped=0,
                    initial_cost_s=initial_cost,
                    monitor_cost_s=0.0,
                    retunes=retunes,
                    trajectory=trajectory,
                    detector=self.detector.snapshot(),
                )
            if tuner.training_set is not None:
                self._train_idx = tuner.training_set.indices.copy()
                self._train_times = tuner.training_set.times_s.copy()
                self._known_invalid.update(
                    int(i) for i in tuner.training_set.invalid_indices
                )
            self._scale = 1.0
            predicted = float(self.model.predict_indices([incumbent])[0])
            tracer.event(
                "online.monitoring",
                incumbent=incumbent,
                predicted_s=predicted,
                steps=self.settings.steps,
            )

            monitor_cost = 0.0
            for step in range(self.settings.steps):
                if ctx.drift is not None:
                    ctx.drift.advance(self.settings.step_interval_s)
                t_now = (
                    ctx.drift.time_of(ledger)
                    if ctx.drift is not None
                    else ledger.total_s
                )
                before = ledger.total_s
                value = self.measurer.measure(incumbent)
                monitor_cost += ledger.total_s - before
                tracer.count("online.steps")
                if value is None:
                    # Quarantined or reset-invalidated incumbent; no
                    # residual to score.  Rare, and self-healing: the next
                    # successful measure re-enters the stream.
                    skipped += 1
                    tracer.count("online.skipped")
                    trajectory.append(
                        {"step": step, "t_s": t_now, "index": incumbent,
                         "measured_s": None, "predicted_s": predicted,
                         "alarm": False}
                    )
                    continue
                alarm = self.detector.update(predicted, value)
                trajectory.append(
                    {"step": step, "t_s": t_now, "index": incumbent,
                     "measured_s": float(value), "predicted_s": predicted,
                     "alarm": bool(alarm)}
                )
                if alarm and len(retunes) < self.settings.max_retunes:
                    event = self._respond(step, t_now, incumbent)
                    if event is not None:
                        retunes.append(event)
                        incumbent = event.new_index
                        predicted = float(
                            self.model.predict_indices([incumbent])[0]
                        )

            campaign_span.set(
                incumbent=incumbent,
                alarms=self.detector.n_alarms,
                retunes=len(retunes),
            )
        return OnlineReport(
            kernel=self.spec.name,
            device=ctx.device.name,
            initial=initial,
            incumbent=incumbent,
            steps=self.settings.steps,
            alarms=self.detector.n_alarms,
            skipped=skipped,
            initial_cost_s=initial_cost,
            monitor_cost_s=monitor_cost,
            retunes=retunes,
            trajectory=trajectory,
            detector=self.detector.snapshot(),
        )

    # -- the alarm response ----------------------------------------------------

    def _pick_window(self, exclude: set) -> List[int]:
        """Top-``retune_window`` candidates by the current model, skipping
        ``exclude`` (known invalids, already-measured round-one configs).

        Over-requests by ``len(exclude)`` so exclusions cannot starve the
        window, then truncates back to the window size.
        """
        m = self.settings.retune_window
        pool = self.model.top_m(m + len(exclude)) if exclude else (
            self.model.top_m(m)
        )
        return [int(i) for i in pool if int(i) not in exclude][:m]

    def _refit(self, ms, post_alarm: bool = False) -> bool:
        """Refit on ratio-rescaled stage-one data + fresh measurements.

        ``post_alarm=True`` marks the first refit after a drift alarm:
        the regime just shifted, and both warm starts and member-wise
        freezing *anchor* the refit to the stale pre-shift landscape
        (measured on the drift benchmark: the post-shift optimum ranks
        ~100th under an anchored refit vs ~40th under a reference one —
        off the end of the re-measure window).  That refit therefore
        always runs cold with freezing disabled; the round-two refit is
        an incremental update within the *same* regime, where the warm
        fast path is safe and converges in tens of epochs.

        Window invalids are deliberately NOT folded in as penalty
        samples (the :meth:`PerformanceModel.fit_measurements` policy):
        invalid boundaries run straight through the near-optimal region,
        and penalty targets several times the slowest time bleed into
        exactly the neighborhood the response needs ranked accurately.
        They are remembered in ``_known_invalid`` and *excluded* from
        future windows instead — same budget saving, no fit pollution.
        """
        if self._train_idx is not None and self._train_idx.size:
            fit_idx = np.concatenate([self._train_idx, ms.indices])
            fit_times = np.concatenate(
                [self._train_times * self._scale, ms.times_s]
            )
        else:
            fit_idx, fit_times = ms.indices, ms.times_s
        if fit_idx.size < max(2, self.model.k):
            return False
        t0 = time.perf_counter()
        if post_alarm:
            saved = self.model.freeze_patience
            self.model.freeze_patience = math.inf
            try:
                self.model.fit(fit_idx, fit_times)
            finally:
                self.model.freeze_patience = saved
        else:
            self.model.fit(
                fit_idx, fit_times, warm_start=self.settings.warm_start_refits
            )
        self._fit_wall_s += time.perf_counter() - t0
        inner = self.model._model
        self._fit_epochs += len(getattr(inner, "loss_curve_", ()))
        return True

    def _respond(
        self, step: int, t_now: float, incumbent: int
    ) -> Optional[RetuneEvent]:
        """Incremental recovery: two-round window re-measure + model update.

        Returns None when round one yields no valid measurement (the
        incumbent stands, the detector keeps running un-reset — the next
        alarm retries).
        """
        ctx = self.context
        ledger = ctx.ledger
        tracer = ctx.tracer
        spent0 = ledger.total_s
        self._fit_wall_s = 0.0
        self._fit_epochs = 0
        with tracer.span("online.retune", step=step) as span:
            window = self._pick_window(self._known_invalid)
            if incumbent not in window:
                window.append(int(incumbent))
            ms = self.measurer.measure_batch(window)
            self._known_invalid.update(int(i) for i in ms.invalid_indices)
            if ms.n_valid == 0:
                span.set(failed=True)
                tracer.event("online.retune_failed", step=step)
                return None
            # Global shift estimate.  The incumbent is the one configuration
            # whose model bias we *know* (the detector calibrated it on the
            # quiet stream), so its residual minus that bias isolates the
            # shift.  The window-median fallback works too but folds in
            # top-M selection bias (the window is selected for the most
            # optimistic predictions, inflating measured/predicted).
            preds = self.model.predict_indices(ms.indices)
            inc_pos = np.nonzero(ms.indices == incumbent)[0]
            if inc_pos.size and self.detector.armed:
                pos = int(inc_pos[0])
                ratio = float(
                    ms.times_s[pos]
                    / preds[pos]
                    / math.exp(self.detector._mu)
                )
            else:
                ratio = float(np.median(ms.times_s / preds))
            ratio = max(ratio, 1e-9)
            self._scale *= ratio
            # Round one refit: stage-one knowledge survives as shape
            # (rescaled by the cumulative shift); the window contributes
            # the only post-shift absolute truth available.  This is the
            # quality-critical fit — it ranks the round-two window — so
            # it runs at reference quality (see _refit).
            refit = self._refit(ms, post_alarm=True)
            # Round two: the refitted model re-ranks the space with the
            # post-shift reordering round one revealed — configurations
            # the pre-shift ranking buried can now surface.  Measure a
            # disjoint second window and let the best of both rounds win.
            window2: List[int] = []
            if refit:
                seen = self._known_invalid.union(
                    int(i) for i in window
                ).union(int(i) for i in ms.quarantined_indices)
                window2 = self._pick_window(seen)
                if window2:
                    ms2 = self.measurer.measure_batch(window2)
                    self._known_invalid.update(
                        int(i) for i in ms2.invalid_indices
                    )
                    if ms2.n_valid:
                        ms = ms.merged_with(ms2)
                        self._refit(ms)
            new_index, new_time = ms.best()
            self.detector.reset()
            cost = ledger.total_s - spent0
            span.set(
                window=len(window),
                window2=len(window2),
                ratio=ratio,
                old_index=int(incumbent),
                new_index=int(new_index),
                refit=refit,
            )
        tracer.count("online.retunes")
        event = RetuneEvent(
            step=step,
            at_s=t_now,
            cost_s=cost,
            ratio=ratio,
            old_index=int(incumbent),
            new_index=int(new_index),
            new_time_s=float(new_time),
            fit_wall_s=self._fit_wall_s,
            fit_epochs=self._fit_epochs,
        )
        tracer.event("online.retune", **event.as_dict())
        return event
