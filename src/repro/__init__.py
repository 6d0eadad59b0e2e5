"""repro — machine-learning based auto-tuning for OpenCL performance
portability.

A full reproduction of Falch & Elster, *"Machine Learning Based Auto-tuning
for Enhanced OpenCL Performance Portability"* (IPDPSW 2015), built on a
structural device performance simulator standing in for the paper's
hardware testbed.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for per-figure reproduction results.

Quick start::

    import numpy as np
    from repro import Context, MLAutoTuner, TunerSettings
    from repro.kernels import ConvolutionKernel
    from repro.simulator import NVIDIA_K40

    ctx = Context(NVIDIA_K40, seed=42)
    tuner = MLAutoTuner(ctx, ConvolutionKernel(),
                        TunerSettings(n_train=1000, m_candidates=100))
    result = tuner.tune(np.random.default_rng(42))
    print(result.best_index, result.best_time_s)
"""

from repro.core import (
    BanditMetaTuner,
    ConfigEncoder,
    CusumDetector,
    DetectorSettings,
    MeasurementDB,
    MeasurementSet,
    Measurer,
    MLAutoTuner,
    OnlineReport,
    OnlineSettings,
    OnlineTuner,
    PerformanceModel,
    SearchSettings,
    SearchTuner,
    TuneRequest,
    TunerSettings,
    TuningResult,
    coordinate_descent,
    exhaustive_search,
    random_search,
    run_search,
    run_tune,
)
from repro.obs import NULL_TRACER, Tracer, render_summary
from repro.runtime import BuildError, Context, Device, LaunchError, Platform

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Context",
    "Device",
    "Platform",
    "BuildError",
    "LaunchError",
    "MLAutoTuner",
    "TuneRequest",
    "run_tune",
    "TunerSettings",
    "TuningResult",
    "PerformanceModel",
    "CusumDetector",
    "DetectorSettings",
    "OnlineTuner",
    "OnlineSettings",
    "OnlineReport",
    "ConfigEncoder",
    "Measurer",
    "MeasurementSet",
    "MeasurementDB",
    "exhaustive_search",
    "random_search",
    "coordinate_descent",
    "SearchSettings",
    "SearchTuner",
    "BanditMetaTuner",
    "run_search",
    "Tracer",
    "NULL_TRACER",
    "render_summary",
]
