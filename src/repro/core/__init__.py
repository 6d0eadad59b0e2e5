"""The machine-learning auto-tuner (the paper's core contribution, §5).

Pipeline (Fig. 3 of the paper)::

    parameterized kernel
      -> pick N random configurations            (core.tuner / params)
      -> measure them on the device              (core.measure, runtime)
      -> train a bagged-ANN model on log(time)   (core.model, ml)
      -> predict the whole space                 (core.model, vectorized)
      -> measure the M best-predicted configs    (core.tuner)
      -> return the best measured one

plus the baselines the evaluation needs: exhaustive search (ground truth
for Figs. 11-13), random search of equal budget, and one-at-a-time
coordinate descent (which parameter interactions defeat).
"""

from repro.core.adaptive import choose_m
from repro.core.campaign import (
    CampaignResult,
    GridCell,
    GridReport,
    PortabilityCampaign,
    run_campaign_grid,
)
from repro.core.drift import CusumDetector, DetectorSettings
from repro.core.encoding import ConfigEncoder
from repro.core.input_aware import InputAwareModel
from repro.core.iterative import IterativeSettings, IterativeTuner
from repro.core.measure import EngineStats, MeasurementSet, Measurer
from repro.core.model import PerformanceModel
from repro.core.online import (
    OnlineReport,
    OnlineSettings,
    OnlineTuner,
    RetuneEvent,
)
from repro.core.request import TuneOutcome, TuneRequest, run_tune
from repro.core.results import MeasurementDB, TuningResult
from repro.core.sensitivity import interaction_strength, parameter_sensitivity
from repro.core.search import (
    CoordinateDescentResult,
    coordinate_descent,
    exhaustive_search,
    random_search,
)
from repro.core.strategies import (
    BanditMetaTuner,
    STRATEGIES,
    STRATEGY_CHOICES,
    SearchOutcome,
    SearchSettings,
    SearchStrategy,
    SearchTuner,
    Subspace,
    make_strategy,
    run_search,
)
from repro.core.tuner import MLAutoTuner, TunerSettings

__all__ = [
    "choose_m",
    "PortabilityCampaign",
    "CampaignResult",
    "GridCell",
    "GridReport",
    "run_campaign_grid",
    "CusumDetector",
    "DetectorSettings",
    "OnlineTuner",
    "OnlineSettings",
    "OnlineReport",
    "RetuneEvent",
    "EngineStats",
    "InputAwareModel",
    "IterativeTuner",
    "IterativeSettings",
    "parameter_sensitivity",
    "interaction_strength",
    "ConfigEncoder",
    "Measurer",
    "MeasurementSet",
    "PerformanceModel",
    "MLAutoTuner",
    "TunerSettings",
    "TuningResult",
    "TuneOutcome",
    "TuneRequest",
    "run_tune",
    "MeasurementDB",
    "exhaustive_search",
    "random_search",
    "coordinate_descent",
    "CoordinateDescentResult",
    "BanditMetaTuner",
    "STRATEGIES",
    "STRATEGY_CHOICES",
    "SearchOutcome",
    "SearchSettings",
    "SearchStrategy",
    "SearchTuner",
    "Subspace",
    "make_strategy",
    "run_search",
]
