"""One measurement path for watches: monitoring probes are measurements.

An :class:`~repro.core.online.OnlineTuner` re-measures its incumbent on
every monitoring step through ``Measurer.measure``, a one-position
``measure_batch``.  So those probes show up in the trace counters, go
through an attached measurement broker, and stay cheap: re-measuring a
cached configuration never re-runs the simulator.
"""

from __future__ import annotations

import numpy as np

import repro.core.measure as measure_mod
from repro.core.measure import Measurer
from repro.core.online import OnlineSettings, OnlineTuner
from repro.core.tuner import TunerSettings
from repro.kernels import get_benchmark
from repro.obs import Tracer
from repro.runtime import Context
from repro.serve import protocol
from repro.serve.broker import MeasurementBroker
from repro.serve.campaigns import run_campaign, watch_request
from repro.simulator import NVIDIA_K40


def test_watch_trace_counts_monitoring_probes():
    """The ``measure.*`` counters of a traced watch equal its measurer's
    EngineStats: every monitoring probe is a traced ``measure.batch``."""
    tracer = Tracer()
    ctx = Context(NVIDIA_K40, seed=3, tracer=tracer, drift="thermal-throttle")
    spec = get_benchmark("convolution")
    measurer = Measurer(ctx, spec)
    online = OnlineTuner(
        ctx,
        spec,
        settings=OnlineSettings(steps=40),
        tune_settings=TunerSettings(n_train=200, m_candidates=20),
        measurer=measurer,
    )
    report = online.run(np.random.default_rng(3), model_seed=3)
    assert report.steps == 40
    tracer.close()
    s = measurer.stats
    counted = {
        key: tracer.counters.get(f"measure.{key}", 0)
        for key in ("requested", "simulated", "cache_hits")
    }
    assert counted == {
        "requested": s.n_requested,
        "simulated": s.n_simulated,
        "cache_hits": s.n_cache_hits,
    }


def test_daemon_watch_probes_go_through_the_broker():
    """A daemon watch measures only through the broker: the pump's config
    count equals everything the watch's measurer was asked for."""
    params = protocol.validate_watch({
        "kernel": "convolution", "device": "nvidia", "n_train": 120,
        "m_candidates": 12, "seed": 2, "steps": 25,
    })
    registered = []
    with MeasurementBroker() as broker:
        run_campaign(watch_request(params), batcher=broker,
                     register=registered.append)
        configs = broker.stats_snapshot()["configs"]
    (measurer,) = registered
    assert configs == measurer.stats.n_requested


def test_cached_re_measure_under_faults_skips_the_simulator(monkeypatch):
    """Only a first probe can reset the device, so a one-position
    re-measure of a cached configuration needs no simulator evaluation
    even when the fault profile can reset the device."""
    spec = get_benchmark("convolution")
    measurer = Measurer(Context(NVIDIA_K40, seed=0, faults="flaky-gpu"), spec)
    assert measurer.context.faults.profile.p_device_reset > 0.0
    rng = np.random.default_rng(1)
    idx = next(
        int(i) for i in spec.space.sample_indices(200, rng)
        if measurer.measure_outcome(int(i))[1] == "ok"
    )
    calls = []
    real = measure_mod.execute_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(measure_mod, "execute_batch", counting)
    hits = measurer.stats.n_cache_hits
    assert measurer.measure(idx) is not None
    assert measurer.stats.n_cache_hits == hits + 1
    assert calls == []
