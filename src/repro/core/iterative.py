"""Iterative refinement: spend the measurement budget in rounds.

An extension beyond the paper's one-shot pipeline: instead of measuring N
random configurations and then the model's top-M once, alternate —

    round 1: measure a random batch, train;
    round r: measure a mix of the current model's favourites
             (exploitation) and fresh random configurations (exploration),
             retrain on everything so far;
    finally: return the best configuration ever measured.

Each round's model has seen the previous rounds' most informative region
(near its own minimum), which is where ranking precision matters for the
final pick.  The ``exploration`` fraction guards against the §7 failure
mode: a model that funnels every slot into an invalid region gets fresh
random evidence about the rest of the space next round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.measure import MeasurementSet, Measurer
from repro.core.model import PerformanceModel
from repro.core.results import TuningResult
from repro.kernels.base import KernelSpec
from repro.runtime import Context


@dataclass(frozen=True)
class IterativeSettings:
    """Budget layout for the iterative tuner.

    ``total_budget`` measurements are split into an initial random batch
    (``initial_fraction``) and ``rounds`` equal refinement rounds, each
    spending ``exploration`` of its slots on fresh random configurations.
    """

    total_budget: int = 1200
    rounds: int = 3
    initial_fraction: float = 0.4
    exploration: float = 0.2
    k_bag: int = 11
    #: Ensemble training engine for every round's model ("adaptive" or
    #: "classic" — see :class:`repro.ml.ensemble.EnsembleMLPRegressor`).
    fit_mode: str = "adaptive"

    def __post_init__(self):
        if self.fit_mode not in ("adaptive", "classic"):
            raise ValueError(
                f"fit_mode must be 'adaptive' or 'classic', got {self.fit_mode!r}"
            )
        if self.total_budget < 50:
            raise ValueError("total_budget must be >= 50")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < self.initial_fraction < 1.0:
            raise ValueError("initial_fraction must be in (0, 1)")
        if not 0.0 <= self.exploration < 1.0:
            raise ValueError("exploration must be in [0, 1)")

    @property
    def initial_batch(self) -> int:
        return int(self.total_budget * self.initial_fraction)

    @property
    def round_batch(self) -> int:
        return (self.total_budget - self.initial_batch) // self.rounds


class IterativeTuner:
    """Round-based auto-tuner sharing the one-shot tuner's components."""

    def __init__(
        self,
        context: Context,
        spec: KernelSpec,
        settings: IterativeSettings = IterativeSettings(),
        measurer: Optional[Measurer] = None,
    ):
        self.context = context
        self.spec = spec
        self.settings = settings
        self.measurer = measurer or Measurer(context, spec)
        self.history: List[MeasurementSet] = []
        self.model: Optional[PerformanceModel] = None

    def _all_measurements(self) -> MeasurementSet:
        merged = self.history[0]
        for ms in self.history[1:]:
            merged = merged.merged_with(ms)
        return merged

    def tune(self, rng: np.random.Generator, model_seed: Optional[int] = None) -> TuningResult:
        s = self.settings
        space = self.spec.space
        tracer = self.context.tracer
        # Per-run cost: the ledger is cumulative across the context's
        # lifetime, so report the delta (same contract as MLAutoTuner).
        cost0 = self.context.ledger.total_s
        stats0 = self.measurer.stats
        self.measurer.stats = type(stats0)()

        with tracer.span(
            "tune.iterative", kernel=self.spec.name, device=self.context.device.name
        ):
            with tracer.span("stage1.measure"):
                self.history = [
                    self.measurer.sample_and_measure(s.initial_batch, rng)
                ]

            for r in range(s.rounds):
                with tracer.span("round", number=r + 1):
                    data = self._all_measurements()
                    if data.n_valid < max(11, s.k_bag):
                        # Not enough signal yet: spend the round exploring.
                        self.history.append(
                            self.measurer.sample_and_measure(s.round_batch, rng)
                        )
                        continue
                    self.model = PerformanceModel(
                        space, k=s.k_bag, seed=model_seed, tracer=tracer,
                        fit_mode=s.fit_mode,
                    )
                    self.model.fit(data.indices, data.times_s)

                    n_explore = int(s.round_batch * s.exploration)
                    n_exploit = s.round_batch - n_explore
                    seen = set(int(i) for i in data.indices) | set(
                        int(i) for i in data.invalid_indices
                    )
                    # Exploit: the best-predicted configurations not yet
                    # measured.
                    proposals = self.model.top_m(n_exploit + len(seen))
                    fresh = [
                        int(i) for i in proposals if int(i) not in seen
                    ][:n_exploit]
                    batch = list(fresh)
                    if n_explore > 0:
                        batch.extend(
                            int(i) for i in space.sample_indices(n_explore, rng)
                        )
                    self.history.append(self.measurer.measure_batch(batch))

        final = self._all_measurements()
        degraded, reason = False, ""
        if final.n_valid == 0:
            best_index, best_time = -1, float("nan")
            degraded, reason = True, "no_valid_measurements"
        else:
            best_index, best_time = final.best()
        run_stats = self.measurer.stats
        self.measurer.stats = stats0.merge(run_stats)
        breakdown = run_stats.failure_breakdown()
        if degraded:
            tracer.count("tuner.degraded")
            tracer.event("tuner.degraded", reason=reason)
        measured = final.n_valid + final.n_invalid + final.n_quarantined
        return TuningResult(
            kernel=self.spec.name,
            device=self.context.device.name,
            best_index=best_index,
            best_time_s=best_time,
            n_trained=final.n_valid,
            n_stage2=measured - (
                self.history[0].n_valid
                + self.history[0].n_invalid
                + self.history[0].n_quarantined
            ),
            stage2_invalid=sum(ms.n_invalid for ms in self.history[1:]),
            evaluated_fraction=measured / space.size,
            total_cost_s=self.context.ledger.total_s - cost0,
            degraded=degraded,
            degraded_reason=reason,
            failure_breakdown=breakdown,
        )
