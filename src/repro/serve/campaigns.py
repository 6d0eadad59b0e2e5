"""Campaign execution for the daemon.

A fresh campaign is bit-identical to ``repro tune`` with the same
:class:`~repro.core.request.TuneRequest`: both call
:func:`~repro.core.request.run_tune`.  The daemon adds only what leaves
the numbers alone — the shared measurement broker (FIFO through
``measure_batch_direct``) and an optional streaming tracer.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.measure import Measurer
from repro.core.online import OnlineSettings, OnlineTuner
from repro.core.request import TuneRequest, run_tune
from repro.core.tuner import TunerSettings
from repro.kernels import get_benchmark
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import Context
from repro.simulator.devices import get_device


def result_payload(result, space) -> Dict[str, Any]:
    """JSON-portable view of a :class:`~repro.core.results.TuningResult`."""
    best_config = None
    if not result.failed:
        best_config = dict(space[result.best_index])
    return {
        "kernel": result.kernel,
        "device": result.device,
        "best_index": int(result.best_index),
        "best_config": best_config,
        "best_time_s": float(result.best_time_s),
        "n_trained": int(result.n_trained),
        "n_stage2": int(result.n_stage2),
        "stage2_invalid": int(result.stage2_invalid),
        "evaluated_fraction": float(result.evaluated_fraction),
        "total_cost_s": float(result.total_cost_s),
        "failed": bool(result.failed),
        "degraded": bool(result.degraded),
        "degraded_reason": result.degraded_reason,
        "failure_breakdown": dict(result.failure_breakdown),
    }


def run_campaign(
    request: TuneRequest,
    batcher=None,
    sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    register: Optional[Callable[[Measurer], None]] = None,
) -> Dict[str, Any]:
    """Execute one campaign; returns payload + accounting + the model.

    Runs synchronously (the server dispatches it to a worker thread).
    ``batcher`` routes every measurement batch through the shared broker;
    ``sink`` receives the campaign's trace records as they happen;
    ``register`` receives the campaign's :class:`Measurer` before tuning
    starts, so the server's ``stats`` op can report the live per-campaign
    ``failure_breakdown()`` while the campaign is in flight.
    """
    tracer = Tracer(sink=sink) if sink is not None else NULL_TRACER
    t0 = time.perf_counter()
    try:
        outcome = run_tune(request, tracer=tracer, batcher=batcher,
                           register=register)
    finally:
        tracer.close()
    wall_s = time.perf_counter() - t0

    model = outcome.model
    if model is not None:
        # The model outlives the campaign in the shared cache; later
        # predicts must not emit into the (now closed) campaign tracer.
        model.detach_tracer()
    return {
        "result": result_payload(outcome.result, outcome.measurer.spec.space),
        "cost": _cost(outcome.ledger),
        "wall_s": wall_s,
        # Fitted stage-one model (None when training was skipped/degraded);
        # the server parks it in the shared ModelCache for `predict`.
        "model": model,
    }


def _cost(ledger) -> Dict[str, float]:
    """A campaign ledger's buckets, as every result payload reports them."""
    return {**asdict(ledger), "total_s": ledger.total_s}


def run_watch(
    params: Dict[str, Any],
    batcher=None,
    sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    register: Optional[Callable[[Measurer], None]] = None,
) -> Dict[str, Any]:
    """Execute one online (watch) campaign; returns payload + accounting.

    ``params`` is a canonicalized ``watch`` request
    (:func:`repro.serve.protocol.validate_watch`).  ``batcher``,
    ``sink`` and ``register`` work as in :func:`run_campaign`; the
    monitoring probes are measurements like any other, so they too go
    through the broker and into the trace.  Unlike
    :func:`run_campaign` there is no model to cache and no result-cache
    identity: a watch lives on its own drift clock, so two "identical"
    watches are different campaigns by definition.
    """
    spec = get_benchmark(params["kernel"])
    device = get_device(params["device"])
    tracer = Tracer(sink=sink) if sink is not None else NULL_TRACER
    ctx = Context(
        device,
        seed=params["seed"],
        tracer=tracer,
        faults=params["faults"],
        drift=params["drift"],
    )
    tune_settings = TunerSettings(
        n_train=params["n_train"],
        m_candidates=params["m_candidates"],
    )
    measurer = Measurer(
        ctx, spec, repeats=tune_settings.repeats, batcher=batcher
    )
    if register is not None:
        register(measurer)
    online = OnlineTuner(
        ctx,
        spec,
        settings=OnlineSettings(
            steps=params["steps"],
            step_interval_s=params["interval_s"],
            retune_window=params["retune_window"],
            warm_start_refits=params["warm_start"],
        ),
        tune_settings=tune_settings,
        measurer=measurer,
    )
    rng = np.random.default_rng(params["seed"])
    t0 = time.perf_counter()
    try:
        report = online.run(rng, model_seed=params["seed"])
    finally:
        tracer.close()
    wall_s = time.perf_counter() - t0

    payload = report.as_dict()
    payload["initial"] = result_payload(report.initial, spec.space)
    if not report.initial.failed:
        payload["incumbent_config"] = dict(spec.space[report.incumbent])
    payload["detector"] = online.detector.snapshot()

    return {"result": payload, "cost": _cost(ctx.ledger), "wall_s": wall_s}
