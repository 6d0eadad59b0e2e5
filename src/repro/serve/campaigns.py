"""Campaign execution for the daemon.

A fresh tune or watch is bit-identical to ``repro tune`` or
``repro watch`` with the same :class:`~repro.core.request.TuneRequest`:
all of them call :func:`~repro.core.request.run_tune`.  The daemon adds
only what leaves the numbers alone — the shared measurement broker (each
batch waits for its first-come-first-served turn, then runs through
``measure_batch_direct`` on the campaign thread) and an optional
streaming tracer.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional

from repro.core.measure import Measurer
from repro.core.online import OnlineSettings
from repro.core.request import TuneRequest, run_tune
from repro.core.tuner import TunerSettings
from repro.obs import NULL_TRACER, Tracer


def watch_request(params: Dict[str, Any]) -> TuneRequest:
    """The :class:`TuneRequest` of a canonicalized ``watch`` request
    (:func:`repro.serve.protocol.validate_watch`); raises ``ValueError``
    for values the request rejects."""
    return TuneRequest(
        kernel=params["kernel"], device=params["device"], seed=params["seed"],
        settings=TunerSettings(n_train=params["n_train"],
                               m_candidates=params["m_candidates"]),
        faults=params["faults"], drift=params["drift"],
        online=OnlineSettings(
            steps=params["steps"], step_interval_s=params["interval_s"],
            retune_window=params["retune_window"],
            warm_start_refits=params["warm_start"],
        ),
    )


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
    """Execute one tune or watch; returns payload + accounting + the model.

    Runs synchronously (the server dispatches it to a worker thread).
    ``batcher`` makes every measurement batch (a watch's probes too)
    take its turn at the shared broker; ``sink`` receives the campaign's trace
    records as they happen; ``register`` receives the campaign's
    :class:`Measurer` before tuning starts, so the server's ``stats`` op
    can report the live per-campaign ``failure_breakdown()`` while the
    campaign is in flight.  A watch's payload is its
    :meth:`~repro.core.online.OnlineReport.as_dict` plus the initial tune,
    the incumbent's configuration and the detector snapshot.
    """
    tracer = Tracer(sink=sink) if sink is not None else NULL_TRACER
    t0 = time.perf_counter()
    try:
        outcome = run_tune(request, tracer=tracer, batcher=batcher,
                           register=register)
    finally:
        tracer.close()
    wall_s = time.perf_counter() - t0

    space = outcome.measurer.spec.space
    model, report = outcome.model, outcome.watch
    if report is None:
        result = result_payload(outcome.result, space)
    else:
        model = None  # a watch lives on its own drift clock: never cached
        result = report.as_dict()
        result["initial"] = result_payload(report.initial, space)
        if not report.initial.failed:
            result["incumbent_config"] = dict(space[report.incumbent])
        result["detector"] = report.detector
    if model is not None:
        # The model outlives the campaign in the shared cache; later
        # predicts must not emit into the (now closed) campaign tracer.
        model.detach_tracer()
    return {
        "result": result,
        "cost": _cost(outcome.ledger),
        "wall_s": wall_s,
        # Fitted stage-one model (None when training was skipped/degraded,
        # or for a watch); the server parks it in the ModelCache for `predict`.
        "model": model,
    }


def _cost(ledger) -> Dict[str, float]:
    """A campaign ledger's buckets, as every result payload reports them."""
    return {**asdict(ledger), "total_s": ledger.total_s}
