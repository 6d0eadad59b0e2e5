"""One tune entry point: a :class:`TuneRequest` in, a :class:`TuneOutcome` out.

The paper's unit of work is one tune (§5, Fig. 3), also run as a model-free
*search* or as a *watch* (tune, then monitor and re-tune on drift).  The
``repro tune``/``search``/``watch`` CLI, campaign-grid cells,
:class:`~repro.core.campaign.PortabilityCampaign` and the serving daemon
all describe it as a frozen, hashable :class:`TuneRequest` and call
:func:`run_tune`, the one place that builds the context, the single
measurer and the tuner — so equal requests give bit-identical results and
ledgers whichever entry point they came from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Optional, Tuple, Union

import numpy as np

from repro.core.iterative import IterativeSettings, IterativeTuner
from repro.core.measure import Measurer
from repro.core.model import PerformanceModel
from repro.core.online import OnlineReport, OnlineSettings, OnlineTuner
from repro.core.results import MeasurementDB, TuningResult
from repro.core.strategies import STRATEGY_CHOICES, SearchSettings, SearchTuner
from repro.core.strategies.base import SearchOutcome, normalize_pins
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.kernels import BENCHMARKS, KernelSpec, get_benchmark
from repro.obs import run_manifest
from repro.runtime import Context
from repro.simulator.devices import DEVICES
from repro.simulator.drift import make_drift
from repro.simulator.faults import make_injector
from repro.simulator.noise import CostLedger


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


@dataclass(frozen=True)
class TuneRequest:
    """Complete, validated description of one tune.

    The pipeline is deterministic in these fields, so equal requests
    compute the same result; the daemon coalesces and caches on them.
    ``kernel`` and ``device`` are catalog keys (callers taking full device
    names resolve them with :func:`~repro.simulator.devices.device_key`).
    ``strategy`` is ``"ml"`` or a strategy-zoo name / ``"bandit"``.
    ``settings`` are :class:`~repro.core.tuner.TunerSettings` (a search
    given these gets the same allowance, ``n_train + m_candidates``
    proposals); :class:`~repro.core.iterative.IterativeSettings` with
    ``"ml"`` only; or unpinned
    :class:`~repro.core.strategies.SearchSettings` with a search strategy
    only.  The simulated-second budget is ``settings.max_cost_s``.
    ``problem`` defaults to the paper's.  ``pins`` (mapping or pairs,
    stored sorted) need a search strategy.  ``faults`` and ``drift`` take
    what :class:`~repro.runtime.Context` takes.  ``online``
    (:class:`~repro.core.online.OnlineSettings`, ``"ml"`` with
    ``TunerSettings`` only) makes the request a watch: the tune, then
    ``online.steps`` of monitoring and re-tuning on drift.
    """

    kernel: str
    device: str
    seed: int = 0
    strategy: str = "ml"
    settings: Union[TunerSettings, IterativeSettings, SearchSettings] = field(
        default_factory=TunerSettings
    )
    problem: Any = None
    pins: Tuple[Tuple[str, Any], ...] = ()
    faults: Any = None
    drift: Any = None
    online: Optional[OnlineSettings] = None

    def __post_init__(self):
        _check(self.kernel in BENCHMARKS,
               f"unknown kernel {self.kernel!r}; known: {sorted(BENCHMARKS)}")
        _check(self.device in DEVICES,
               f"unknown device {self.device!r}; known: {sorted(DEVICES)}")
        _check(isinstance(self.seed, (int, np.integer))
               and not isinstance(self.seed, bool) and self.seed >= 0,
               f"seed must be a non-negative integer, got {self.seed!r}")
        _check(self.strategy == "ml" or self.strategy in STRATEGY_CHOICES,
               f"unknown strategy {self.strategy!r}; expected 'ml' or one "
               f"of {sorted(STRATEGY_CHOICES)}")
        ml = self.strategy == "ml"
        other = IterativeSettings if ml else SearchSettings
        _check(isinstance(self.settings, (TunerSettings, other)),
               "settings must be TunerSettings, IterativeSettings with "
               "strategy 'ml', or SearchSettings with a search strategy; "
               f"got {type(self.settings).__name__} with {self.strategy!r}")
        _check(not getattr(self.settings, "pins", ()),
               "pins belong on the request, not in its SearchSettings")
        _check(self.online is None
               or (ml and isinstance(self.settings, TunerSettings)),
               "online settings need strategy 'ml' with TunerSettings; got "
               f"{type(self.settings).__name__} with {self.strategy!r}")
        paper = BENCHMARKS[self.kernel].paper_problem()
        if self.problem is None:
            object.__setattr__(self, "problem", paper)
        _check(type(self.problem) is type(paper),
               f"{self.kernel} needs a {type(paper).__name__}, "
               f"got {self.problem!r}")
        object.__setattr__(self, "pins", normalize_pins(self.pins))
        _check(not self.pins or self.strategy != "ml",
               "pins are only valid with a search strategy")
        make_injector(self.faults)  # unknown profiles raise ValueError
        make_drift(self.drift)

    def spec(self) -> KernelSpec:
        """A fresh kernel spec for this request's kernel and problem."""
        return get_benchmark(self.kernel, problem=self.problem)

    def manifest(self, **extra) -> dict:
        """Trace manifest: every request field plus run provenance."""
        return run_manifest(
            kernel=self.kernel, device=DEVICES[self.device].name,
            seed=self.seed, strategy=self.strategy,
            settings=asdict(self.settings), problem=asdict(self.problem),
            pins=dict(self.pins), faults=self.faults, drift=self.drift,
            online=None if self.online is None else asdict(self.online),
            **extra,
        )


@dataclass(frozen=True)
class TuneOutcome:
    """What :func:`run_tune` returns: the result (a watch's initial
    tune); the run's single measurer (its ``stats``, its context's
    ``ledger``, and it can keep measuring on that context); the fitted
    model (``None`` for searches or a budget spent in stage one; a
    watch's model as its last refit left it); the search outcome
    (``None`` for ``"ml"``); the watch report (``None`` unless
    ``request.online`` is set)."""

    result: TuningResult
    measurer: Measurer
    model: Optional[PerformanceModel]
    search: Optional[SearchOutcome]
    watch: Optional[OnlineReport] = None

    @property
    def ledger(self) -> CostLedger:
        return self.measurer.context.ledger


def run_tune(
    request: TuneRequest,
    *,
    tracer=None,
    db: Optional[MeasurementDB] = None,
    batcher=None,
    register=None,
) -> TuneOutcome:
    """Run one tune, search or watch.

    ``tracer`` receives the spans (the caller closes it); ``db`` backs the
    measurer with a durable store; ``batcher`` routes its batches through
    a shared broker; ``register`` receives it before tuning starts.
    """
    spec = request.spec()
    settings = request.settings
    ctx = Context(DEVICES[request.device], seed=request.seed, tracer=tracer,
                  faults=request.faults, drift=request.drift)
    # IterativeSettings has no repeats knob: best-of-3, the Measurer default.
    measurer = Measurer(ctx, spec, repeats=getattr(settings, "repeats", 3),
                        db=db, batcher=batcher)
    if register is not None:
        register(measurer)
    rng = np.random.default_rng(request.seed)
    if request.online is not None:
        online = OnlineTuner(ctx, spec, request.online, settings,
                             measurer=measurer)
        report = online.run(rng, model_seed=request.seed)
        return TuneOutcome(report.initial, measurer, online.model, None,
                           report)
    if request.strategy != "ml":
        if isinstance(settings, TunerSettings):
            settings = SearchSettings(
                budget=settings.n_train + settings.m_candidates,
                max_cost_s=settings.max_cost_s, repeats=settings.repeats)
        tuner = SearchTuner(ctx, spec, request.strategy,
                            replace(settings, pins=request.pins),
                            measurer=measurer)
    elif isinstance(settings, IterativeSettings):
        tuner = IterativeTuner(ctx, spec, settings, measurer=measurer)
    else:
        tuner = MLAutoTuner(ctx, spec, settings, measurer=measurer)
    result = tuner.tune(rng, model_seed=request.seed)
    return TuneOutcome(result, measurer, tuner.model,
                       getattr(tuner, "outcome", None))
